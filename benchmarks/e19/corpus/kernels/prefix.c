/* First-order recurrence (running products): never vectorizable. */
float acc[{n}], w[{n}];

void prefix(int n)
{
    int i;
    for (i = 1; i < n; i++)
        acc[i] = acc[i-1] * w[i];
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++) {
        acc[i] = 0.0f;
        w[i] = 1 - (((i + {s}) & 4) >> 1);
    }
    acc[0] = 3.0f;
    prefix({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + acc[i];
    return (int) s;
}
