int A[12];
int B[12];
int C[12];
int g0 = -3;
int g1 = -1;
int g2 = 3;

int h0(int x, int y)
{
    return ((7 > 4) - (-9 / 3));
}

int h1(int x, int y)
{
    if (x > y)
        return (x ^ y) + 3;
    return y - x + 3;
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
    for (i = 0; i < 12; i++) {
        B[8] = -9;
    }
    t0 = ((g2++ > -3) || ((g1 -= 4) > 0));
    for (i = 1; i < 6; i++) {
        if ((((-7 * (B[0] + C[i - 1]))) & 7) == 0) continue;
        t0 = ((t1 + (B[i + 1] + C[i])) % 2);
        B[2 * i] = (t0 + (g0 * (((C[i - 1]) ? (C[6]) : (-8)) * 7)));
        C[2 * i] = (t0 + t1);
        g0 = g0 + A[2 * i];
    }
    chk = 0;
    for (i = 0; i < 12; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
