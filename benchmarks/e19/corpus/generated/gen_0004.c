int A[12];
int B[12];
int C[12];
int g0 = 5;
int g1 = 1;
int g2 = 6;

int h0(int x, int y)
{
    return -7;
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
    for (i = 1; i < 12; i++) {
        B[i] = B[i - 1];
        A[i] = -1;
        if (((i) & 7) == 5) break;
    }
    if ((((g0 | t1) - (4 | t1))) > 0) {
        t0 = ((g1++ > -2) || ((g2 -= 2) > 0));
    } else {
        t0 = (((g1 >= -7) | (g1 != t0))) > 0 ? (g0 += 4) : (g2 -= 4);
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
