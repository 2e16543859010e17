// Sibling header for core__order.cpp (its presence is what arms the
// include-order rule). Itself clean.
#pragma once

int answer();
