/* Three-point smoother reading only the old array: fully vector. */
float src[{n}], dst[{n}];

void smooth(int n)
{
    int i;
    for (i = 1; i < n - 1; i++)
        dst[i] = 0.25f*src[i-1] + 0.5f*src[i] + 0.25f*src[i+1];
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++) {
        src[i] = 4 * ((i + {s}) & 7);
        dst[i] = 0.0f;
    }
    smooth({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + dst[i];
    return (int) s;
}
