int A[16];
int B[16];
int C[16];
int g0 = 3;
int g1 = 3;
int g2 = -1;

int h0(int x, int y)
{
    return 3;
}

int h1(int x, int y)
{
    return ((9 << 0) % 2);
}

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
    for (i = 1; i < 8; i++) {
        t0 = ((((A[i - 1] * t0)) ? (((t1) ? (A[13]) : (g0))) : ((i & C[i]))) & g1);
        B[i - 1] = (((i <= t0) <= g2) | i);
        if (((((i | A[2 * i]) / ((i & 7) + 1))) & 7) == 2) break;
    }
    if ((g2) > 0) {
        t0 = ((g0 - h1(-1, 5))) > 0 ? (g2 += 5) : (g1 -= 5);
    }
    g2 += (h1(t1, (-5 / 7)) ^ 7);
    chk = 0;
    for (i = 0; i < 16; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
