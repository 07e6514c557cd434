/* Elementwise vector add. */
float out[{n}], p[{n}], q[{n}];

void vadd(float *o, float *u, float *v, int n)
{
    int i;
    for (i = 0; i < n; i++)
        o[i] = u[i] + v[i];
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++) {
        p[i] = (i + {s}) & 7;
        q[i] = (i + 5) & 3;
    }
    vadd(out, p, q, {n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + out[i];
    return (int) s;
}
