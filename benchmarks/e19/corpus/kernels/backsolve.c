/* Paper section 6: back-substitution recurrence, carried true
 * dependence at distance 1 -- never vectorizable. */
float x[{n}], y[{n}], z[{n}];

void backsolve(int n)
{
    float *p, *q;
    int i;
    p = &x[1];
    q = &x[0];
    for (i = 0; i < n - 2; i++)
        p[i] = z[i] * (y[i] - q[i]);
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++) {
        x[i] = 0.0f;
        y[i] = (i + {s}) & 3;
        z[i] = 1 - 2 * (i & 1);
    }
    x[0] = 1.0f;
    backsolve({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + x[i];
    return (int) s;
}
