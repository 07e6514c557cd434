int A[12];
int B[12];
int C[12];
int g0 = 1;
int g1 = 0;
int g2 = 6;

int h0(int x, int y)
{
    if (x > y)
        return (x * y) + 5;
    return y - x + 5;
}

int h1(int x, int y)
{
    return ((x) ? ((y ^ x)) : ((7 - x)));
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
    for (i = 1; i < 6; i++) {
        if ((-1) >= (((A[7] % 3) % 8)))
            C[i] = ((h1(B[i + 1], -1) / ((A[9] & 7) + 1)) & (((i) ? (i) : (-7)) ^ (2 > 4)));
        else
            C[i] = (((C[i - 1] & i) | (-7 * 8)) / (((1 | t0) & 7) + 1));
        C[2 * i] = (((h1(B[i + 1], C[i - 1]) | i)) ? (A[5]) : (A[i + 1]));
    }
    g2 ^= -9;
    chk = 0;
    for (i = 0; i < 12; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
