/* Paper section 9: pointer-walking daxpy called on global arrays;
 * the inliner and while->DO conversion expose the vector loop. */
float a[{n}], b[{n}], c[{n}];

void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++) {
        b[i] = (i + {s}) & 7;
        c[i] = (i + 3) & 3;
    }
    daxpy(a, b, c, 2.0f, {n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + a[i];
    return (int) s;
}
