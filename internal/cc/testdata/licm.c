// Loop-invariant code motion cases for TestObjectDigests: candidates that
// differ only in literal kind, identifier, operator or parentheses must
// each be hoisted, repeats must share one register, and inner loops must
// reuse, not re-hoist, what an enclosing loop hoisted.
double g;

double licm(double *a, double x, double y, int n) {
	int i;
	int j;
	double s;
	s = 0.0;
	for (i = 0; i < n; i++) {
		s = s + x * 2.0;
		s = s + x * 2;
		s = s + y * 2.0;
		s = s + x / 2.0;
		s = s + (x * 2.0);
		s = s + x * 2.0;
		s = s - 2;
		s = s - 2.0;
		a[i] = a[i] * (x + y) + g * 2.5;
		for (j = 0; j < n; j++) {
			s = s + x * 2.0;
			s = s + y * 3.0 - -x;
			a[j] = s * 0.5 + (x + y);
		}
		for (j = 0; j < n; j++) {
			s = s - y * 3.0;
		}
	}
	for (i = 0; i < n; i++) {
		s = s + y * 3.0 + x * 2.0;
	}
	return s;
}
