int A[16];
int B[16];
int C[16];
int g0 = 6;
int g1 = 8;
int g2 = 8;

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
    n = 15;
    do {
        n = n - 1;
        g2 = (g2 ^ t0) + n;
    } while (n > 0);
    n = 2;
    do {
        n = n - 1;
        g1 = (g1 ^ (t1 + t1)) + n;
    } while (n > 0);
    p = B; q = C; n = 8;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + 5;
    }
    for (i = 1; i < 15; i++) {
        C[i - 1] = ((((i - 2) - ((A[i - 1]) ? (g2) : (t0)))) ? (((B[i - 1] - B[1]) % ((C[i + 1] & 7) + 1))) : (t0));
    }
    n = 5;
    do {
        n = n - 1;
        g1 = (g1 ^ 8) + n;
    } while (n > 0);
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
