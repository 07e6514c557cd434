int A[16];
int B[16];
int C[16];
int g0 = 8;
int g1 = 8;
int g2 = 6;

int h0(int x, int y)
{
    return (y * (7 < -9));
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
    for (i = 0; i < 16; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 8;
    }
    if ((t0) > 0) {
        t0 = (((g2 - t1) | 1)) > 0 ? (g2 += 6) : (g1 -= 6);
    } else {
        t0 = ((h1(t1, g0) & 6)) > 0 ? (g1 += 2) : (g2 -= 2);
    }
    t0 = t0 + h1(g1, (-3 | (t1 % ((g2 & 7) + 1))));
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
