int A[8];
int B[8];
int C[8];
int g0 = 9;
int g1 = -2;
int g2 = 5;

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
        if ((t1) != (t0))
            A[i - 1] = C[i - 1];
    }
    for (i = 1; i < 4; i++) {
        t0 = (((g1) ? (g2) : (C[5])) / ((((B[i - 1] >> 1) % ((((t0) ? (i) : (C[5])) & 7) + 1)) & 7) + 1));
        B[2 * i] = B[2 * i];
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
