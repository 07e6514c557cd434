int A[24];
int B[24];
int C[24];
int g0 = 0;
int g1 = 2;
int g2 = 3;

int h0(int x, int y)
{
    if (x > y)
        return (x ^ y) + 4;
    return y - x + 4;
}

int h1(int x, int y)
{
    if (x > y)
        return (x - y) + 2;
    return y - x + 2;
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
    for (i = 1; i < 12; i++) {
        if ((8) == (((C[i + 1] < 7) | g1)))
            A[2 * i] = B[i - 1];
        else
            A[2 * i] = g2;
    }
    for (i = 0; i < 12; i++) {
        if ((((i * A[i])) & 7) == 1) break;
        B[2] = (h1(B[i], i) >> 0);
        A[i] = 6;
        g0 = g0 + B[2 * i];
    }
    for (i = 1; i < 12; i++) {
        A[6] = (((A[i + 1] & i) % ((t0 & 7) + 1)) ^ (((g1 + A[i - 1])) ? ((i >> 0)) : (t1)));
        C[i + 1] = i;
        g0 = g0 + A[2 * i];
    }
    t0 = t0 + h0(0, ((-4) ? (((3) ? (t1) : (4))) : (-8)));
    n = 8;
    do {
        n = n - 1;
        g2 = (g2 ^ (((g2) ? (-7) : (-2)) & ((-1) ? (-3) : (-7)))) + n;
    } while (n > 0);
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
