int A[24];
int B[24];
int C[24];
int g0 = 9;
int g1 = -2;
int g2 = 0;

int h0(int x, int y)
{
    return ((y & 7) == -6);
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
    for (i = 1; i < 23; i++) {
        if ((((C[i - 1] * t1) >> 3)) >= ((((-7) ? (C[i]) : (A[i - 1])) + (A[i + 1] - t1))))
            B[i] = i;
    }
    g2 = g2 + h0((8 | (3 > t1)), -4);
    for (i = 1; i < 12; i++) {
        B[2 * i] = g1;
        A[i] = h0(((g1) ? (((B[8]) ? (A[i - 1]) : (i))) : ((A[i - 1] != g0))), g2);
        A[i - 1] = ((h0(-6, t1) + (2 & -8)) + ((g0 >= 8) - (g0 + i)));
        g0 = g0 + A[i + 1];
    }
    for (i = 1; i < 12; i++) {
        if ((((g0 * (-9 % ((-1 & 7) + 1)))) & 7) == 5) break;
        t0 = (C[5] * (g2 ^ (A[i + 1] | C[2 * i])));
        C[i - 1] = (t0 + (((1 & 8) - t0) % ((((((g2) ? (C[2 * i]) : (-9))) ? ((g1 << 3)) : (A[2 * i])) & 7) + 1)));
        C[13] = ((C[2 * i] ^ (B[i - 1] + B[i])) - -5);
        B[2 * i] = g0;
        g0 = g0 + A[19];
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
