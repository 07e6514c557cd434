int A[12];
int B[12];
int C[12];
int g0 = -2;
int g1 = 9;
int g2 = -3;

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
    n = 8;
    do {
        n = n - 1;
        g0 = (g0 ^ ((g0 - t1) << 3)) + n;
    } while (n > 0);
    t0 = (g1) > 0 ? (g2 += 5) : (g0 -= 5);
    chk = 0;
    for (i = 0; i < 12; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
