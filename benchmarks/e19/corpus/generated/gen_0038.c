int A[24];
int B[24];
int C[24];
int g0 = 6;
int g1 = 8;
int g2 = 5;

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
    for (i = 0; i < 24; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 12;
    }
    g0 = g0 + h0((g2 | (g1 & 7)), ((t1 & -5) % 2));
    for (i = 1; i < 12; i++) {
        if ((C[i - 1]) <= (B[2 * i]))
            B[i] = (g2 & B[7]);
        B[i + 1] = (h0(((-2) ? (C[i + 1]) : (A[i])), (A[i] | C[i + 1])) + (((1 - i)) ? ((A[21] + i)) : (A[i + 1])));
    }
    n = 23;
    do {
        n = n - 1;
        g0 = (g0 ^ 7) + n;
    } while (n > 0);
    for (i = 1; i < 12; i++) {
        C[2 * i] = 4;
        B[2 * i] = (((i | A[i - 1]) - A[i + 1]) < ((4 * C[i]) - (g1 ^ B[i - 1])));
        A[18] = (((B[2 * i] ^ i) ^ i) >> 0);
    }
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
