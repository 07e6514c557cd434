int A[12];
int B[12];
int C[12];
int g0 = -4;
int g1 = 6;
int g2 = 9;

int h0(int x, int y)
{
    if (x > y)
        return (x - y) + 2;
    return y - x + 2;
}

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
        t0 = (((B[3] / 2) < h0(C[2 * i], -1)) & ((-8 % 2) & h0(C[i + 1], 8)));
        A[2 * i] = ((((i | A[i + 1])) ? ((i | i)) : ((B[3] == g2))) | 7);
    }
    for (i = 1; i < 6; i++) {
        t0 = B[i - 1];
        B[2 * i] = A[i];
        if ((((((-3) ? (-5) : (i)) <= C[i])) & 7) == 5) continue;
        A[i + 1] = (A[i - 1] * ((A[2 * i] != B[i]) - -6));
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
