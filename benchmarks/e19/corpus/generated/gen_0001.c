int A[12];
int B[12];
int C[12];
int g0 = 6;
int g1 = 2;
int g2 = 0;

int h0(int x, int y)
{
    if (x > y)
        return (x + y) + 3;
    return y - x + 3;
}

int h1(int x, int y)
{
    return ((x + x) < (x ^ 9));
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
    for (i = 0; i < 6; i++) {
        t0 = ((h0(C[2 * i], g2) / (((A[10] + g2) & 7) + 1)) / ((h1((i * C[2 * i]), 6) & 7) + 1));
        A[2 * i] = ((A[i] >> 2) * (B[9] & (g0 | t1)));
    }
    t0 = ((g1++ > 8) || ((g2 -= 6) > 0));
    for (i = 1; i < 6; i++) {
        C[2] = h0((((C[i + 1]) ? (B[2 * i]) : (A[i - 1])) & ((B[i - 1]) ? (A[i]) : (t1))), ((-7 + 5) | i));
        A[i - 1] = B[i + 1];
        if (((((i < A[2 * i]) ^ i)) & 7) == 3) continue;
        g0 = g0 + A[i + 1];
    }
    for (i = 0; i < 6; i++) {
        if ((((((C[i + 1]) ? (B[0]) : (g2)) | C[2 * i])) & 7) == 7) break;
        C[i + 1] = ((g0 - (C[2 * i] & t1)) % 8);
        A[2 * i] = ((i / (((0 + i) & 7) + 1)) << 3);
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
