int A[24];
int B[24];
int C[24];
int g0 = -4;
int g1 = 1;
int g2 = 8;

int h0(int x, int y)
{
    return -7;
}

int h1(int x, int y)
{
    return ((-2 / 2) * ((4) ? (x) : (x)));
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
    g1 = g1 + h1(((-6 ^ g2) << 0), -1);
    for (i = 1; i < 24; i++) {
        C[i] = ((((A[i - 1] & i)) ? (i) : (i)) * (t0 | (i << 3)));
        g0 = g0 + B[i];
        if (((((9 | 0) * C[17])) & 7) == 0) break;
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
