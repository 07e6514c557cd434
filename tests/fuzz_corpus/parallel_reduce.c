// expect: run
// Forked reductions.  Each kernel runs at n = 4096, where at two or
// more processors its reduction strips fork (do parallel: the static
// price of fork, share and combine is below the serial loop's), and at
// n = 100, where they are too few to pay and stay serial:
//  * the mix loop, a vector store and a sum distributed from one loop;
//  * a dot product;
//  * a running minimum and maximum, written with ?: (C has no min/max
//    operator, so these stay sequential recurrences beside the sums).
// The data is integer valued and every partial sum stays below 2**24,
// so float32 holds each one exactly.
float a[4096], b[4096], c[4096];

float mix(int n)
{
    int i;
    float s;
    s = 0.0f;
    for (i = 0; i < n; i++) {
        c[i] = a[i] * b[i];
        s = s + c[i];
    }
    return s;
}

float sdot(int n)
{
    int i;
    float s;
    s = 0.0f;
    for (i = 0; i < n; i++)
        s = s + a[i] * b[i];
    return s;
}

float spread(int n)
{
    int i;
    float lo, hi;
    lo = a[0] - b[0];
    hi = lo;
    for (i = 0; i < n; i++) {
        lo = a[i] - b[i] < lo ? a[i] - b[i] : lo;
        hi = a[i] - b[i] > hi ? a[i] - b[i] : hi;
    }
    return hi - lo;
}

int main(void)
{
    int i, chk;
    for (i = 0; i < 4096; i++) {
        a[i] = (i * 5) % 7;
        b[i] = i % 3 + 1;
    }
    chk = (int) mix(4096) + (int) sdot(4096) * 3
        + (int) spread(4096) * 7;
    chk = chk * 31 + (int) mix(100) + (int) sdot(100) * 3
        + (int) spread(100) * 7;
    for (i = 0; i < 4096; i += 97)
        chk = (chk * 7 + (int) c[i]) % 65521;
    return chk;
}
