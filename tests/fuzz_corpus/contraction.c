// expect: run
// Sections held in the vector register file, at 256 elements (8
// strips of 32):
//  * init -> compute -> sum: x and y are stored, then read again in
//    the same strip, and z read after it is stored: every re-read is
//    held, none issues a load;
//  * a store through a pointer the rule cannot tell from any array
//    (p is w or w + 1, chosen at run time; the `safe` pragma promises
//    it overlaps nothing else the loop touches): after it only the
//    section it stored is held, so z and x are read again from memory;
//  * a masked store to y: y is read again after it, x stays held.
float x[257], y[257], z[257], w[258];

float chain(void)
{
    int i;
    float s;
    for (i = 0; i < 256; i++) {
        x[i] = (i * 7) % 13 - 6;
        y[i] = i % 5 + 1;
    }
    for (i = 0; i < 256; i++)
        z[i] = x[i] + 2.0f * y[i];
    s = 0.0f;
    for (i = 0; i < 256; i++)
        s = s + z[i] * y[i];
    return s;
}

#pragma safe
void through(float *p, int n)
{
    int i;
    for (i = 0; i < n; i++) {
        z[i] = x[i] + 1.0f;
        p[i] = z[i] * 2.0f;
        y[i] = z[i] - x[i] + p[i];
    }
}

void masked(void)
{
    int i;
    for (i = 0; i < 256; i++) {
        if (x[i] > 0.0f)
            y[i] = x[i] + 3.0f;
        z[i] = y[i] + x[i];
    }
}

int main(void)
{
    int i, chk;
    float s;
    float *p;
    s = chain();
    chk = (int) s;
    p = w;
    if (chk & 1)
        p = w + 1;
    through(p, 256);
    for (i = 0; i < 256; i++)
        chk = (chk * 7 + (int) w[i] + (int) y[i]) % 65521;
    masked();
    for (i = 0; i < 256; i++)
        chk = (chk * 7 + (int) z[i] + (int) y[i]) % 65521;
    return chk;
}
