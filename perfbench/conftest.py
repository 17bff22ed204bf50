import os
import sys

# The benchmark's tests import phasecap from the checkout's sources.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
