int A[16];
int B[16];
int C[16];
int g0 = 9;
int g1 = 8;
int g2 = 2;

int h0(int x, int y)
{
    return (y < (x * 0));
}

int main(void)
{
    int i, n, chk;
    int t0, t1;
    int *p, *q;
    t0 = 0; t1 = 0; n = 0;
    for (i = 0; i < 16; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 8;
    }
    n = 1;
    do {
        n = n - 1;
        g0 = (g0 ^ ((g2 - t0) & (t0 << 2))) + n;
    } while (n > 0);
    for (i = 1; i < 16; i++) {
        A[11] = g2;
        B[i - 1] = (((6 == 5) & -5) - ((3 | B[i - 1]) / 2));
    }
    p = B; q = A; n = 1;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + -8;
    }
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
