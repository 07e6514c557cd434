int A[12];
int B[12];
int C[12];
int g0 = 0;
int g1 = -3;
int g2 = -1;

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
    for (i = 0; i < 11; i++) {
        if (((i == (i - 1))) <= ((g2 - (C[i + 1] ^ i))))
            A[i + 1] = C[i + 1];
        else
            A[i + 1] = B[4];
    }
    for (i = 1; i < 6; i++) {
        if ((B[2]) != ((B[i + 1] - ((-3) ? (C[i - 1]) : (i)))))
            C[i] = (t0 & 8);
        else
            C[i] = (((((-5) ? (6) : (A[2 * i]))) ? (g2) : ((g2 >> 2))) / 8);
    }
    for (i = 1; i < 6; i++) {
        A[11] = (C[7] / 7);
        B[2 * i] = (((g1 - i) == (-7 & i)) < ((g2) ? ((g1 | i)) : (i)));
        B[i - 1] = i;
    }
    p = B; q = C; n = 12;
    while (n > 0) {
        n = n - 1;
        *p++ = *q++ + 7;
    }
    t0 = (t0) > 0 ? (g1 += 6) : (g2 -= 6);
    chk = 0;
    for (i = 0; i < 12; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
