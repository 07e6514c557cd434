int A[16];
int B[16];
int C[16];
int g0 = -1;
int g1 = 2;
int g2 = 2;

int h0(int x, int y)
{
    return x;
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
    g0 = g0 + h0(0, (g1 | g0));
    if ((-8) > 0) {
        t1 = ((g1 > 1) && ((g2 += 3) != 0)) ? g1 : g2;
    } else {
        t0 = (h0((g1 & g1), (t1 - g2))) > 0 ? (g0 += 3) : (g1 -= 3);
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
