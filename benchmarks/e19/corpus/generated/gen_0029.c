int A[8];
int B[8];
int C[8];
int g0 = 3;
int g1 = 9;
int g2 = -1;

int h0(int x, int y)
{
    if (x > y)
        return (x * y) + 1;
    return y - x + 1;
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
    if ((((6 * t1) + (-2 & t0))) > 0) {
        t1 = ((g2 > -1) && ((g1 += 3) != 0)) ? g2 : g1;
    }
    n = 7;
    while (n > 0) {
        n = n - 1;
        g1 = g1 + ((t1 > 2) | g0);
    }
    for (i = 0; i < 4; i++) {
        if (((((g2 << 0)) ? (B[2]) : (-8))) > ((A[i] + (t0 - i))))
            B[2 * i] = g2;
        else
            B[2 * i] = -4;
    }
    if (((h0(g1, -6) - ((g2) ? (4) : (1)))) > 0) {
        t0 = ((-5 ^ t0) / 5);
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
