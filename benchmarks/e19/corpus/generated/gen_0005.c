int A[16];
int B[16];
int C[16];
int g0 = 1;
int g1 = 0;
int g2 = 7;

int h0(int x, int y)
{
    return ((y) ? ((x + 3)) : (((-9) ? (4) : (y))));
}

int h1(int x, int y)
{
    if (x > y)
        return (x ^ y) + 2;
    return y - x + 2;
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
    for (i = 0; i < 16; i++) {
        if ((-9) > (g1))
            C[14] = t1;
    }
    for (i = 1; i < 15; i++) {
        if (((i % 3)) <= (i))
            C[i + 1] = ((i) ? (i) : (((A[i + 1] & i) >= (i ^ C[i]))));
        else
            C[i + 1] = (t1 & ((i <= C[i - 1]) + (i | i)));
        A[i + 1] = A[i - 1];
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
