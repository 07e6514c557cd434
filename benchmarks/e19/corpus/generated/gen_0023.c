int A[16];
int B[16];
int C[16];
int g0 = 5;
int g1 = 3;
int g2 = -4;

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
    n = 10;
    do {
        n = n - 1;
        g1 = (g1 ^ g1) + n;
    } while (n > 0);
    t1 = ((g1 > -2) && ((g2 += 1) != 0)) ? g1 : g2;
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
