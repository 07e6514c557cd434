/* Section 10: a true while loop over a linked list threaded through
 * an array of nodes -- pointer chasing, scalar at every level. */
struct node { float v; struct node *next; };
struct node nodes[{n}];
float total;

void walk(struct node *p)
{
    while (p) {
        total = total + p->v;
        p = p->next;
    }
}

int main(void)
{
    int i;
    for (i = 0; i < {n}; i++) {
        nodes[i].v = (i + {s}) & 7;
        nodes[i].next = 0;
    }
    for (i = 0; i < {n} - 1; i++)
        nodes[i].next = &nodes[i + 1];
    total = 0.0f;
    walk(&nodes[0]);
    return (int) total;
}
