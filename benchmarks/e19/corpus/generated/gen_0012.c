int A[24];
int B[24];
int C[24];
int g0 = 0;
int g1 = 8;
int g2 = 8;

int h0(int x, int y)
{
    if (x > y)
        return (x * y) + 2;
    return y - x + 2;
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
    for (i = 0; i < 12; i++) {
        C[2 * i] = ((-5) ? ((g0 << 0)) : (((7 + g0) >> 3)));
        A[2 * i] = h0(((8) ? (3) : (((C[2 * i]) ? (C[0]) : (-3)))), ((i / 4) * A[16]));
        g0 = g0 + A[2 * i];
    }
    p = A; q = B; n = 22;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + -6;
    }
    p = A; q = B; n = 6;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + 4;
    }
    n = 16;
    do {
        n = n - 1;
        g1 = (g1 ^ ((t0 * t0) | 5)) + n;
    } while (n > 0);
    t1 = ((g0 > -9) && ((g2 += 5) != 0)) ? g0 : g2;
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
