int A[8];
int B[8];
int C[8];
int g0 = 8;
int g1 = 0;
int g2 = 6;

int h0(int x, int y)
{
    return y;
}

int h1(int x, int y)
{
    return x;
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
    if ((g0) > 0) {
        t0 = ((g1++ > -3) || ((g0 -= 5) > 0));
    }
    n = 2;
    while (n > 0) {
        n = n - 1;
        if ((((t0 & (4 | 8))) & 7) == 1) continue;
        g1 = g1 + -5;
    }
    for (i = 1; i < 4; i++) {
        A[2 * i] = ((B[7]) ? (h0((5 + A[2 * i]), (B[i - 1] - C[i - 1]))) : (B[i - 1]));
        C[i] = i;
        C[2 * i] = 5;
    }
    for (i = 0; i < 4; i++) {
        if (((((C[4] + 9) & (i << 2))) & 7) == 0) continue;
        B[i] = t0;
        g0 = g0 + A[2 * i];
    }
    chk = 0;
    for (i = 0; i < 8; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
