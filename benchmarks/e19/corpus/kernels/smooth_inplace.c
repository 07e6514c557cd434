/* In-place smoother: anti-dependence only, so the vector reads
 * complete first and the loop vectorizes. */
float buf[{n}];

void smooth_inplace(int n)
{
    int i;
    for (i = 0; i < n - 1; i++)
        buf[i] = 0.5f * buf[i] + 0.5f * buf[i+1];
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < {n}; i++)
        buf[i] = 2 * ((i + {s}) & 7);
    smooth_inplace({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + buf[i];
    return (int) s;
}
