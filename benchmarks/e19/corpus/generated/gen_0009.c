int A[24];
int B[24];
int C[24];
int g0 = 1;
int g1 = -4;
int g2 = -3;

int h0(int x, int y)
{
    return 1;
}

int h1(int x, int y)
{
    if (x > y)
        return (x + y) + 3;
    return y - x + 3;
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
    if ((t0) > 0) {
        t1 = ((g0 > -6) && ((g2 += 1) != 0)) ? g0 : g2;
    } else {
        t0 = (((-1 / 4) - (4 ^ 3))) > 0 ? (g2 += 6) : (g1 -= 6);
    }
    g0 = g0 + h0(-9, -3);
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
