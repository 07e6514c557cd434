int A[8];
int B[8];
int C[8];
int g0 = 8;
int g1 = -1;
int g2 = -1;

int h0(int x, int y)
{
    return (x - 3);
}

int h1(int x, int y)
{
    return ((4) ? (4) : ((-4 >> 1)));
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
    for (i = 1; i < 7; i++) {
        if ((((C[i - 1] | 9) ^ (i - -8))) == ((B[i - 1] != (g2 - C[i + 1]))))
            A[i] = (i - B[i]);
        B[3] = (((i < A[i + 1]) ^ B[4]) >= C[0]);
    }
    t0 = ((g0++ > -3) || ((g2 -= 4) > 0));
    for (i = 1; i < 4; i++) {
        t0 = ((g1 >= (C[i - 1] & B[2 * i])) | (C[i - 1] * h1(B[i], 3)));
        B[2 * i] = ((-5 % 8) ^ t1);
        if (((i) & 7) == 0) break;
        A[2 * i] = -6;
        B[i] = (t0 + i);
        g0 = g0 + B[2 * i];
    }
    for (i = 0; i < 8; i++) {
        t0 = t1;
        A[4] = (t0 + ((h0(g2, A[4]) >= i) / 8));
    }
    if (((1 | (2 * g0))) > 0) {
        g2 = ((g0 & (g2 & 5)) ^ (g0 & (t0 % 2)));
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
