int A[12];
int B[12];
int C[12];
int g0 = 9;
int g1 = -3;
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
    for (i = 0; i < 6; i++) {
        t0 = ((i + i) ^ g2);
        B[i + 1] = A[2 * i];
    }
    n = 10;
    while (n > 0) {
        n = n - 1;
        g2 = g2 + ((-3 & 8) == 0);
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
