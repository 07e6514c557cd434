int A[8];
int B[8];
int C[8];
int g0 = 9;
int g1 = 1;
int g2 = -3;

int h0(int x, int y)
{
    if (x > y)
        return (x + y) + 3;
    return y - x + 3;
}

int h1(int x, int y)
{
    return ((x & -8) <= 8);
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
    if ((((7) ? (h1(-9, 7)) : ((-9 ^ g2)))) > 0) {
        t1 = ((g0 > 0) && ((g2 += 2) != 0)) ? g0 : g2;
    }
    n = 1;
    do {
        n = n - 1;
        g1 = (g1 ^ 6) + n;
    } while (n > 0);
    for (i = 1; i < 7; i++) {
        if (((((-1) ? (g0) : (B[i + 1])) & -5)) != (t1))
            A[i - 1] = B[i - 1];
        else
            A[i - 1] = i;
        A[i + 1] = h0(9, ((-3 << 2) - t0));
    }
    t1 = t1 + h1(8, ((-1 ^ -1) ^ (1 != g1)));
    chk = 0;
    for (i = 0; i < 8; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
