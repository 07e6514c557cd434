int A[24];
int B[24];
int C[24];
int g0 = -2;
int g1 = -1;
int g2 = 3;

int h0(int x, int y)
{
    if (x > y)
        return (x + y) + 2;
    return y - x + 2;
}

int h1(int x, int y)
{
    return -6;
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
    for (i = 1; i < 24; i++) {
        if (((g0) & 7) == 6) break;
        C[i - 1] = ((i >> 1) / (((i * B[i]) & 7) + 1));
    }
    t0 = ((g1++ > 8) || ((g2 -= 5) > 0));
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
