int A[24];
int B[24];
int C[24];
int g0 = -2;
int g1 = 3;
int g2 = 1;

int h0(int x, int y)
{
    return y;
}

int main(void)
{
    int i, n, chk;
    int t0, t1;
    int *p, *q;
    t0 = 0; t1 = 0; n = 0;
    for (i = 0; i < 24; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 12;
    }
    n = 13;
    do {
        n = n - 1;
        g2 = (g2 ^ ((-5 & g1) - -6)) + n;
    } while (n > 0);
    for (i = 0; i < 12; i++) {
        C[i + 1] = i;
        C[2 * i] = -6;
        g0 = g0 + C[i + 1];
    }
    for (i = 1; i < 23; i++) {
        if ((C[i]) != (((A[i + 1] * 4) / (((g0 / 5) & 7) + 1))))
            A[i - 1] = h0(((-8 - -5) ^ (7 % ((-2 & 7) + 1))), i);
    }
    if (((-2 ^ t1)) > 0) {
        g0 += (g1 + 8);
    }
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
