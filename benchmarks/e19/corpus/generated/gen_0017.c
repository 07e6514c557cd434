int A[24];
int B[24];
int C[24];
int g0 = 1;
int g1 = 8;
int g2 = 1;

int h0(int x, int y)
{
    if (x > y)
        return (x * y) + 2;
    return y - x + 2;
}

int main(void)
{
    int i, n, chk;
    int t0, t1;
    int *p, *q;
    t0 = 0; t1 = 0; n = 0;
    for (i = 0; i < 24; i++) {
        A[i] = (i * 7) % 13 - 6;
        B[i] = (i * 5) % 11 - 3;
        C[i] = i - 12;
    }
    for (i = 1; i < 23; i++) {
        t0 = (C[i - 1] % 7);
        if (((((-1 * t1) | h0(i, i))) & 7) == 5) continue;
        A[i + 1] = (h0(-7, 7) - (((t0) ? (A[i - 1]) : (C[i - 1])) < i));
        g0 = g0 + B[i];
    }
    t0 = (g0) > 0 ? (g2 += 3) : (g1 -= 3);
    t0 = t0 + h0((g0 * ((3) ? (t1) : (g1))), g1);
    for (i = 0; i < 23; i++) {
        t0 = (((i ^ i) - (C[i] / ((g1 & 7) + 1))) * (i | B[12]));
        if ((((h0(A[i], B[5]) <= h0(B[15], 0))) & 7) == 0) break;
        A[13] = (t0 + (A[i + 1] <= (((A[13]) ? (i) : (C[i + 1])) * i)));
    }
    chk = 0;
    for (i = 0; i < 24; i++)
        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;
    chk = chk * 31 + g0;
    chk = chk * 31 + g1;
    chk = chk * 31 + g2;
    chk = chk * 31 + t0 + t1;
    return chk;
}
