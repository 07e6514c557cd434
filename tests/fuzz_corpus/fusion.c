// expect: run
// Strip-loop fusion exercise, at 256 elements (8 strips of 32):
//  * two regions of one loop (a store and a sum) share one strip loop;
//  * init -> compute -> s = 0 -> sum across three source loops: the
//    reset moves ahead and the three loops become one;
//  * a refused fusion: the second loop reads y[i+1], which the first
//    loop's next iteration writes;
//  * the guarded_diff shape: the second loop reads y[i-1], written an
//    iteration earlier, so the fused loop could not fork: at 2 or 4
//    CPUs two forked loops are cheaper, at 1 CPU one serial loop is.
float x[257], y[257], z[257], w[257];

float mix(int n)
{
    int i;
    float s;
    s = 0.0f;
    for (i = 0; i < n; i++) {
        z[i] = x[i] * y[i];
        s = s + z[i];
    }
    return s;
}

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
        s = s + z[i];
    return s;
}

void ahead(void)
{
    int i;
    for (i = 0; i < 256; i++)
        y[i] = x[i] + 1.0f;
    for (i = 0; i < 256; i++)
        w[i] = y[i + 1] * 2.0f;
}

void behind(void)
{
    int i;
    for (i = 0; i < 256; i++)
        y[i] = x[i] - 1.0f;
    for (i = 0; i < 256; i++) {
        if (i > 0)
            w[i] = (y[i] - y[i - 1]) * 2.0f;
    }
}

int main(void)
{
    int i, chk;
    float s;
    y[256] = 3.0f;
    s = chain();
    s = s + mix(256);
    ahead();
    chk = (int) s;
    for (i = 0; i < 256; i++)
        chk = (chk * 7 + (int) w[i]) % 65521;
    behind();
    for (i = 0; i < 256; i++)
        chk = (chk * 7 + (int) w[i] + (int) y[i]) % 65521;
    return chk;
}
