int A[8];
int B[8];
int C[8];
int g0 = 9;
int g1 = 2;
int g2 = -1;

int h0(int x, int y)
{
    if (x > y)
        return (x - y) + 4;
    return y - x + 4;
}

int main(void)
{
    int i, n, chk;
    int t0, t1;
    int *p, *q;
    t0 = 0; t1 = 0; n = 0;
    for (i = 0; i < 8; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 4;
    }
    for (i = 0; i < 4; i++) {
        C[i] = ((B[2 * i]) ? (-6) : (-4));
        C[2 * i] = C[4];
        g0 = g0 + A[i];
    }
    for (i = 1; i < 4; i++) {
        if ((7) != ((((C[2 * i] + i)) ? (A[i + 1]) : ((9 >> 2)))))
            A[i + 1] = C[i];
        C[i - 1] = ((((g0 << 2)) ? (B[2 * i]) : ((-6 + g0))) & (B[2 * i] >> 2));
    }
    if ((-7) > 0) {
        t1 = ((g2 > 9) && ((g1 += 2) != 0)) ? g2 : g1;
    }
    if (((-4 << 1)) > 0) {
        t0 = (-3) > 0 ? (g2 += 3) : (g0 -= 3);
    }
    chk = 0;
    for (i = 0; i < 8; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
