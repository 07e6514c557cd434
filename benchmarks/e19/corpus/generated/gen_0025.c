int A[24];
int B[24];
int C[24];
int g0 = 9;
int g1 = 1;
int g2 = -3;

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
    if ((g0) > 0) {
        t0 = ((g0++ > 4) || ((g1 -= 5) > 0));
    } else {
        t0 = (((8) ? (t1) : (9))) > 0 ? (g2 += 5) : (g0 -= 5);
    }
    for (i = 1; i < 12; i++) {
        if ((t1) >= ((((g0) ? (A[i + 1]) : (B[i + 1])) & (C[2 * i] < B[2 * i]))))
            B[i - 1] = 4;
        B[i] = (((-2 + g1) << 1) & (C[17] >> 2));
    }
    for (i = 1; i < 12; i++) {
        if ((((C[i - 1] >= -1) == 9)) > (((C[i - 1]) ? (i) : ((C[i + 1] + -1)))))
            B[2 * i] = ((((i | g2)) ? (((9) ? (t1) : (g0))) : (1)) + (((-6 + i)) ? (B[i - 1]) : (i)));
        else
            B[2 * i] = C[i];
        B[i] = (((B[i] >> 2) - g2) * ((A[0] | g0) + (i << 0)));
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
