int A[16];
int B[16];
int C[16];
int g0 = 8;
int g1 = -1;
int g2 = 9;

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
    if (((-2 + g2)) > 0) {
        t0 = ((g2++ > 4) || ((g0 -= 5) > 0));
    }
    n = 12;
    while (n > 0) {
        n = n - 1;
        if (((-6) & 7) == 7) continue;
        g1 = g1 + ((-9 >> 3) & 4);
    }
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
