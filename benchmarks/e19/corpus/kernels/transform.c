/* Dore-style 4x4 transform over a point list (sections 2, 5.2). */
float mat[16];
float px[{n}], py[{n}], pz[{n}], pw[{n}];
float ox[{n}], oy[{n}], oz[{n}], ow[{n}];

void transform(int n)
{
    int i;
    for (i = 0; i < n; i++) {
        ox[i] = mat[0]*px[i] + mat[1]*py[i] + mat[2]*pz[i] + mat[3]*pw[i];
        oy[i] = mat[4]*px[i] + mat[5]*py[i] + mat[6]*pz[i] + mat[7]*pw[i];
        oz[i] = mat[8]*px[i] + mat[9]*py[i] + mat[10]*pz[i] + mat[11]*pw[i];
        ow[i] = mat[12]*px[i] + mat[13]*py[i] + mat[14]*pz[i] + mat[15]*pw[i];
    }
}

int main(void)
{
    int i;
    float s;
    for (i = 0; i < 16; i++)
        mat[i] = (i + {s}) & 3;
    for (i = 0; i < {n}; i++) {
        px[i] = i & 3;
        py[i] = (i + 1) & 3;
        pz[i] = (i + 2) & 1;
        pw[i] = 1.0f;
    }
    transform({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + ox[i] + oy[i] + oz[i] + ow[i];
    return (int) s;
}
