int A[8];
int B[8];
int C[8];
int g0 = -3;
int g1 = -1;
int g2 = 7;

int h0(int x, int y)
{
    if (x > y)
        return (x + y) + 1;
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
    g2 = g2 + h0(((-3 % ((4 & 7) + 1)) & 2), ((g0 ^ 9) & (g1 << 2)));
    p = A; q = C; n = 7;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + -7;
    }
    n = 2;
    while (n > 0) {
        n = n - 1;
        if (((((7 | -3) / 4)) & 7) == 4) continue;
        g2 = g2 + g2;
        if (((((5 / ((5 & 7) + 1)) - (7 % 8))) & 7) == 6) break;
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
