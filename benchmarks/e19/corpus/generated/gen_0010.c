int A[8];
int B[8];
int C[8];
int g0 = 7;
int g1 = 8;
int g2 = 7;

int h0(int x, int y)
{
    return x;
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
    for (i = 1; i < 8; i++) {
        if ((g2) <= (t1))
            A[7] = i;
        A[i - 1] = (((-2 | g1) & (i | g2)) & ((C[i - 1] ^ g1) == (6 + i)));
    }
    for (i = 0; i < 7; i++) {
        A[i + 1] = i;
        C[i + 1] = 5;
        A[i + 1] = ((i <= A[i + 1]) % 8);
    }
    for (i = 1; i < 4; i++) {
        if ((g0) == (((i + C[2 * i]) * C[i + 1])))
            B[i - 1] = ((B[2 * i] >= C[5]) | ((-9 % ((2 & 7) + 1)) | 5));
    }
    for (i = 1; i < 4; i++) {
        if (((i <= (C[i - 1] > C[2]))) == ((((A[i]) ? (i) : (C[i + 1])) ^ -8)))
            B[2 * i] = (B[i + 1] * (B[i + 1] * 0));
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
