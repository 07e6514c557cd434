int A[8];
int B[8];
int C[8];
int g0 = 0;
int g1 = 3;
int g2 = 3;

int h0(int x, int y)
{
    if (x > y)
        return (x - y) + 3;
    return y - x + 3;
}

int h1(int x, int y)
{
    if (x > y)
        return (x * y) + 1;
    return y - x + 1;
}

int main(void)
{
    int i, n, chk;
    int t0, t1;
    int *p, *q;
    t0 = 0; t1 = 0; n = 0;
    for (i = 0; i < 8; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 4;
    }
    n = 8;
    do {
        n = n - 1;
        g2 = (g2 ^ ((1 * g2) % (((g1 - -7) & 7) + 1))) + n;
    } while (n > 0);
    for (i = 1; i < 4; i++) {
        t0 = t0;
        B[7] = (((g0 >> 1) | B[i + 1]) ^ h1(-1, -4));
        A[1] = (i | ((A[2 * i] * A[7]) / 4));
        A[2 * i] = (t0 + (B[i - 1] % 7));
    }
    n = 2;
    do {
        n = n - 1;
        g1 = (g1 ^ 0) + n;
    } while (n > 0);
    for (i = 1; i < 7; i++) {
        B[5] = ((A[i - 1] + B[i - 1]) + (C[i + 1] << 2));
        if (((B[i - 1]) & 7) == 3) break;
    }
    g0 = g0 + h1(-5, -3);
    chk = 0;
    for (i = 0; i < 8; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
