int A[12];
int B[12];
int C[12];
int g0 = 5;
int g1 = 0;
int g2 = 5;

int h0(int x, int y)
{
    return (((7) ? (y) : (x)) >= 0);
}

int h1(int x, int y)
{
    return ((x / 2) ^ y);
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
    t0 = ((t1 >> 3)) > 0 ? (g2 += 2) : (g1 -= 2);
    for (i = 1; i < 6; i++) {
        if (((((-7) ? (g0) : (1)) << 0)) <= ((t0 >> 3)))
            C[i] = ((B[2 * i] & (-2 << 3)) < ((-7 <= B[i - 1]) & h1(i, B[7])));
        B[i + 1] = g2;
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
