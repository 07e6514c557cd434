int A[16];
int B[16];
int C[16];
int g0 = 7;
int g1 = 4;
int g2 = -1;

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
    if ((g2) > 0) {
        t0 = (2) > 0 ? (g2 += 6) : (g1 -= 6);
    } else {
        t0 = (((1 + -4) >> 1)) > 0 ? (g0 += 3) : (g1 -= 3);
    }
    n = 3;
    do {
        n = n - 1;
        g1 = (g1 ^ (-5 * (g2 >= t1))) + n;
    } while (n > 0);
    for (i = 0; i < 15; i++) {
        B[1] = (A[i] ^ t0);
        B[i] = A[i + 1];
    }
    for (i = 1; i < 8; i++) {
        t0 = g0;
        A[2 * i] = (t0 + ((A[2 * i] | ((C[i - 1]) ? (B[i + 1]) : (B[2 * i]))) ^ ((C[i - 1] | A[2 * i]) * ((A[i]) ? (i) : (B[i + 1])))));
        C[i - 1] = (t0 + B[i]);
        C[i] = (t0 + 6);
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
