/* BLAS sdot: a sum reduction over a product. */
float u[{n}], v[{n}];

float sdot(float *x, float *y, int n)
{
    float sum;
    int i;
    sum = 0.0f;
    for (i = 0; i < n; i++)
        sum = sum + x[i] * y[i];
    return sum;
}

int main(void)
{
    int i;
    for (i = 0; i < {n}; i++) {
        u[i] = (i + {s}) & 7;
        v[i] = (i + 1) & 3;
    }
    return (int) sdot(u, v, {n});
}
