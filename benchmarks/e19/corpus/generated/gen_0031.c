int A[8];
int B[8];
int C[8];
int g0 = 7;
int g1 = 1;
int g2 = -1;

int h0(int x, int y)
{
    return -5;
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
    p = A; q = C; n = 3;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + -8;
    }
    for (i = 0; i < 4; i++) {
        if (((3 | g2)) != (A[i + 1]))
            A[7] = A[0];
        A[i + 1] = (C[2 * i] / 5);
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
