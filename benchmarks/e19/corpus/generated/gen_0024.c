int A[24];
int B[24];
int C[24];
int g0 = 7;
int g1 = 1;
int g2 = 3;

int h0(int x, int y)
{
    return ((0 ^ 5) - (6 + x));
}

int h1(int x, int y)
{
    return (x | x);
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
    t0 = ((g2++ > -6) || ((g0 -= 3) > 0));
    n = 22;
    while (n > 0) {
        n = n - 1;
        if (((((g1 | 9) != (1 ^ g1))) & 7) == 2) continue;
        t1 = t1 + h0((-1 + t1), (0 % 4));
    }
    n = 6;
    do {
        n = n - 1;
        g2 = (g2 ^ (2 / 5)) + n;
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
