int A[12];
int B[12];
int C[12];
int g0 = 7;
int g1 = 3;
int g2 = -4;

int h0(int x, int y)
{
    if (x > y)
        return (x * y) + 4;
    return y - x + 4;
}

int main(void)
{
    int i, n, chk;
    int t0, t1;
    int *p, *q;
    t0 = 0; t1 = 0; n = 0;
    for (i = 0; i < 12; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 6;
    }
    t1 = t1 + h0((g0 + -2), ((g0 % ((2 & 7) + 1)) / 2));
    for (i = 1; i < 12; i++) {
        C[i - 1] = (((g1 + A[i]) >= h0(g2, t1)) - B[6]);
    }
    for (i = 0; i < 12; i++) {
        t0 = (8 < h0((A[1] << 2), (i >> 1)));
        A[i] = (7 & ((B[i] ^ C[6]) & g1));
    }
    chk = 0;
    for (i = 0; i < 12; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
