"""Multi-parameter proximal point iteration with quantitative rates.

The package has three layers:

* ``operators`` / ``schedules`` / ``iteration`` run the iteration
  z_{n+1} = lam_n u + gam_n z_n + del_n J_{c_n} z_n + e_n numerically,
* ``countfn`` / ``bounds`` / ``refeval`` evaluate the rate calculus over
  exact integers under an explicit work-and-magnitude budget,
* ``oracle`` / ``acceptance`` / ``cli`` cross-check the two against each
  other and against brute-force searches on synthetic instances.
"""

__version__ = "0.1.0"
