/* BLAS sscal: x = alpha * x, indexed form. */
float x[{n}];

void sscal(float *v, float alpha, int n)
{
    int i;
    for (i = 0; i < n; i++)
        v[i] = alpha * v[i];
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++)
        x[i] = (i + {s}) & 15;
    sscal(x, 3.0f, {n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + x[i];
    return (int) s;
}
