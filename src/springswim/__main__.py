import gc
import sys

from .cli import main

gc.freeze()  # later collections, the one at interpreter exit too, skip the objects the imports made
sys.exit(main())
