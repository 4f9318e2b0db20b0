"""Run grid-islander's CLI in this process and fail if the run imported
_hashlib or mapped OpenSSL's libraries.

    python .github/run_all_without_openssl.py run-all --config C --out-dir D

Run it from outside the checkout, so that the installed package is the
one imported. It exits with the CLI's code, or 1 if OpenSSL was loaded.
"""

import sys

from grid_islander.cli import main

rc = main(sys.argv[1:])
with open("/proc/self/maps", encoding="utf-8") as maps:
    openssl = sorted({line.split()[-1] for line in maps
                      if "libcrypto" in line or "libssl" in line})
hashlib_loaded = "_hashlib" in sys.modules
print(f"_hashlib imported: {hashlib_loaded}; OpenSSL mapped: {openssl}")
sys.exit(rc or int(hashlib_loaded or bool(openssl)))
