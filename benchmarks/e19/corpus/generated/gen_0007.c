int A[16];
int B[16];
int C[16];
int g0 = 1;
int g1 = 1;
int g2 = -3;

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
    t0 = (((4) ? ((g0 + -2)) : (((9) ? (g0) : (-8))))) > 0 ? (g0 += 3) : (g2 -= 3);
    n = 5;
    do {
        n = n - 1;
        g1 = (g1 ^ ((t1) ? ((2 + 8)) : (((-3) ? (t1) : (g2))))) + n;
    } while (n > 0);
    p = B; q = A; n = 15;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + -2;
    }
    for (i = 1; i < 8; i++) {
        t0 = (((B[i + 1] | t0) | (B[i - 1] | i)) >> 3);
        A[i] = (((B[2 * i] ^ A[i - 1]) + (t1 << 3)) > i);
        B[2 * i] = (t0 + (C[2 * i] == t0));
        B[i - 1] = ((g1 + B[i + 1]) % 5);
    }
    for (i = 0; i < 8; i++) {
        C[i] = ((A[2 * i]) ? ((-3 % 4)) : ((((2) ? (A[i]) : (t1)) + i)));
        B[11] = (((g0 + i) <= (t1 == -3)) & C[i]);
        B[i] = (g2 | ((((i) ? (t1) : (g1))) ? ((B[2 * i] - -9)) : ((i <= t1))));
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
