int A[16];
int B[16];
int C[16];
int g0 = -3;
int g1 = 2;
int g2 = 6;

int h0(int x, int y)
{
    if (x > y)
        return (x - y) + 2;
    return y - x + 2;
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
    p = A; q = C; n = 6;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + 0;
    }
    for (i = 1; i < 8; i++) {
        t0 = (((g2 % ((C[13] & 7) + 1)) * C[i - 1]) * C[i - 1]);
        B[4] = ((i - C[i - 1]) >= t1);
        C[i + 1] = (B[2 * i] << 3);
        g0 = g0 + B[i + 1];
    }
    g1 = g1 + h0((t1 * (6 ^ -8)), ((g1) ? (8) : (-4)));
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
