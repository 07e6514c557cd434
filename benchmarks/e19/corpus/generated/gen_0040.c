int A[24];
int B[24];
int C[24];
int g0 = -3;
int g1 = -4;
int g2 = -3;

int h0(int x, int y)
{
    if (x > y)
        return (x + y) + 2;
    return y - x + 2;
}

int h1(int x, int y)
{
    return ((x ^ -8) - ((x) ? (1) : (-1)));
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
    for (i = 0; i < 12; i++) {
        if ((((g1 >> 1) * (t1 & t0))) == ((((A[i]) ? (A[9]) : (g1)) - (i & B[2 * i]))))
            C[3] = ((C[i] | ((4) ? (A[7]) : (A[i + 1]))) + i);
        B[i + 1] = (A[i + 1] - ((A[i + 1] * A[i]) / 2));
    }
    n = 12;
    do {
        n = n - 1;
        g1 = (g1 ^ (8 % ((7 & 7) + 1))) + n;
    } while (n > 0);
    n = 19;
    while (n > 0) {
        n = n - 1;
        g2 = g2 + (h0(g0, g0) + 9);
    }
    for (i = 1; i < 12; i++) {
        t0 = B[2 * i];
        A[i + 1] = A[i];
        B[i - 1] = (B[2 * i] > ((-3 != C[i - 1]) == A[2 * i]));
        A[i] = h1(B[i - 1], (A[i] << 3));
        g0 = g0 + A[i];
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
