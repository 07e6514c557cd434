int A[8];
int B[8];
int C[8];
int g0 = -4;
int g1 = -3;
int g2 = 1;

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
    for (i = 0; i < 7; i++) {
        t0 = C[i];
        B[i] = g1;
        g0 = g0 + C[i + 1];
    }
    n = 7;
    do {
        n = n - 1;
        g0 = (g0 ^ ((g2 ^ g1) + g0)) + n;
    } while (n > 0);
    for (i = 1; i < 4; i++) {
        t0 = ((5) ? ((i % (((g2 ^ -2) & 7) + 1))) : ((i / 3)));
        C[i - 1] = (t0 + ((((C[i - 1] & C[i + 1])) ? (-2) : ((A[i - 1] << 2))) | C[2 * i]));
        B[i + 1] = C[4];
    }
    for (i = 0; i < 7; i++) {
        A[i] = (B[1] ^ C[4]);
        if ((((((0 >> 1)) ? ((t1 | 0)) : (((A[i + 1]) ? (i) : (t1))))) & 7) == 5) break;
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
