int A[8];
int B[8];
int C[8];
int g0 = -1;
int g1 = 9;
int g2 = 9;

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
    for (i = 1; i < 4; i++) {
        if (((i + ((C[i - 1]) ? (8) : (t1)))) > (g2))
            C[i + 1] = (C[i] << 3);
        else
            C[i + 1] = 8;
        A[2 * i] = C[i + 1];
    }
    if ((((g1 + g2) | g2)) > 0) {
        g0 += (g0 + (6 & g2));
    }
    if ((t1) > 0) {
        t1 = ((g0 > 9) && ((g1 += 4) != 0)) ? g0 : g1;
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
