int A[8];
int B[8];
int C[8];
int g0 = 5;
int g1 = 6;
int g2 = 6;

int h0(int x, int y)
{
    return (((-9) ? (1) : (-9)) ^ y);
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
    for (i = 1; i < 4; i++) {
        B[i - 1] = B[i];
        C[1] = ((i - ((i) ? (A[2 * i]) : (B[i - 1]))) << 0);
    }
    t0 = ((((8) ? (-7) : (g0)) >> 1)) > 0 ? (g1 += 3) : (g0 -= 3);
    for (i = 1; i < 4; i++) {
        A[i - 1] = (((-7 >> 3) - (C[i - 1] & C[2 * i])) | ((t0 / 3) / 4));
        B[5] = g2;
        B[2 * i] = A[i];
        g0 = g0 + C[5];
    }
    for (i = 1; i < 4; i++) {
        C[2 * i] = (A[0] << 1);
        A[i - 1] = (A[2 * i] ^ h0((g1 & 1), (i < B[i + 1])));
        A[i - 1] = i;
        g0 = g0 + C[i - 1];
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
