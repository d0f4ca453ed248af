"""Multi-parameter proximal point iteration with quantitative rates.

The package has three layers:

* ``operators`` / ``schedules`` / ``iteration`` run the iteration
  z_{n+1} = lam_n u + gam_n z_n + del_n J_{c_n} z_n + e_n numerically,
* ``countfn`` / ``bounds`` / ``refeval`` evaluate the rate calculus over
  exact integers under an explicit work-and-magnitude budget,
* ``oracle`` / ``acceptance`` / ``cli`` cross-check the two against each
  other and against brute-force searches on synthetic instances.

numpy is loaded only where arrays are built.  The second layer never
imports it.  ``operators``, ``schedules`` and ``oracle`` share one binding
that imports it at first use: when an operator or a schedule builds arrays
or a Suzuki suite builds its pair.  Every operator decides its zero-set
witness exactly, in integers, and linear_psd its matrix too, so ``mppa
bound`` on a config with const or harmonic schedules loads no numpy,
whether it accepts the config or not.  ``iteration`` and ``acceptance``
import it eagerly, and ``cli`` imports ``iteration`` only inside the run
pipeline, so ``import mppa.cli`` and the integer oracle suites run
without it.  ``cli`` imports ``oracle`` only for ``mppa oracle``, and
``acceptance`` for ``mppa verify``.
"""

__version__ = "0.1.0"
