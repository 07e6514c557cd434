/* Boundary-guarded first difference: if-conversion turns the index
 * guard into an iota mask and the store into a masked vector store. */
float gin[{n}], gout[{n}];

void guarded_diff(int n)
{
    int i;
    for (i = 0; i < n; i++) {
        if (i > 0)
            gout[i] = (gin[i] - gin[i-1]) * 2.0f;
    }
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++) {
        gin[i] = ((i + {s}) & 7) * (i & 3);
        gout[i] = 1.0f;
    }
    guarded_diff({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + gout[i];
    return (int) s;
}
